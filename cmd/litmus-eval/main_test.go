package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

// parse runs registerOptions + validate on a private FlagSet, the same
// path main takes.
func parse(t *testing.T, args ...string) (*options, error) {
	t.Helper()
	fs := flag.NewFlagSet("litmus-eval", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := registerOptions(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, o.validate()
}

func TestDefaults(t *testing.T) {
	o, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if o.table != "all" || o.scale != 1.0 || o.sweep || o.ablation || o.rows {
		t.Errorf("defaults wrong: %+v", o)
	}
	if o.sweepOut != "" || o.faultSpec != "all" || o.faultSeed != 1 {
		t.Errorf("sweep defaults wrong: %+v", o)
	}
}

func TestTableSelection(t *testing.T) {
	for _, tbl := range []string{"2", "4", "all"} {
		o, err := parse(t, "-table", tbl)
		if err != nil {
			t.Errorf("-table %s rejected: %v", tbl, err)
			continue
		}
		if o.table != tbl {
			t.Errorf("-table %s parsed as %q", tbl, o.table)
		}
	}
	for _, tbl := range []string{"1", "3", "table4", ""} {
		if _, err := parse(t, "-table", tbl); err == nil {
			t.Errorf("-table %q accepted", tbl)
		}
	}
}

func TestScaleValidation(t *testing.T) {
	o, err := parse(t, "-table", "4", "-scale", "0.1")
	if err != nil {
		t.Fatal(err)
	}
	if o.scale != 0.1 {
		t.Errorf("scale = %v, want 0.1", o.scale)
	}
	for _, bad := range []string{"0", "-1", "-0.5"} {
		if _, err := parse(t, "-scale", bad); err == nil {
			t.Errorf("-scale %s accepted", bad)
		}
	}
}

func TestSweepFlagParsing(t *testing.T) {
	o, err := parse(t, "-sweep", "-sweep-rates", " 0, 0.05 ,0.2", "-faults", "gap,dropcol", "-fault-seed", "9")
	if err != nil {
		t.Fatal(err)
	}
	if !o.sweep || o.faultSpec != "gap,dropcol" || o.faultSeed != 9 {
		t.Errorf("sweep flags wrong: %+v", o)
	}
	if want := []float64{0, 0.05, 0.2}; !reflect.DeepEqual(o.rates, want) {
		t.Errorf("rates = %v, want %v", o.rates, want)
	}
}

func TestInvalidCombos(t *testing.T) {
	cases := [][]string{
		{"-sweep", "-ablation"},
		{"-sweep", "-table", "2"},
		{"-sweep", "-sweep-rates", "0,2"},
		{"-sweep", "-sweep-rates", "-0.1"},
		{"-sweep", "-sweep-rates", "abc"},
		{"-sweep", "-sweep-rates", ",,"},
		{"-table", "5"},
		{"-scale", "0"},
	}
	for _, args := range cases {
		if _, err := parse(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// Rate garbage without -sweep is tolerated: the flag is unused.
	if _, err := parse(t, "-sweep-rates", "abc"); err != nil {
		t.Errorf("unused -sweep-rates validated anyway: %v", err)
	}
	// -sweep composes with the synthetic tables and ablation-free flags.
	for _, args := range [][]string{
		{"-sweep"},
		{"-sweep", "-table", "4"},
		{"-sweep", "-table", "all"},
		{"-sweep", "-scale", "0.05", "-workers", "4"},
	} {
		if _, err := parse(t, args...); err != nil {
			t.Errorf("args %v rejected: %v", args, err)
		}
	}
}

func TestParseRates(t *testing.T) {
	got, err := parseRates("0,0.01,0.05,0.1,0.2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []float64{0, 0.01, 0.05, 0.1, 0.2}) {
		t.Errorf("parseRates = %v", got)
	}
	if _, err := parseRates("0.5,1.01"); err == nil {
		t.Error("rate above 1 accepted")
	}
	if _, err := parseRates(""); err == nil {
		t.Error("empty rate list accepted")
	}
}
