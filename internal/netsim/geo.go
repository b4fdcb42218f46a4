package netsim

import (
	"fmt"
	"math"
	"strconv"
)

// GeoPoint is a geographic coordinate in decimal degrees.
type GeoPoint struct {
	Lat, Lon float64
}

// earthRadiusKm is the mean Earth radius used by the haversine formula.
const earthRadiusKm = 6371.0

// DistanceKm returns the great-circle distance between two points using
// the haversine formula.
func DistanceKm(a, b GeoPoint) float64 {
	const degToRad = math.Pi / 180
	lat1, lat2 := a.Lat*degToRad, b.Lat*degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	if h > 1 {
		h = 1
	}
	return 2 * earthRadiusKm * math.Asin(math.Sqrt(h))
}

// regionCenter holds the anchor coordinate each region's elements scatter
// around. Values approximate the paper's US regions.
var regionCenter = [...]GeoPoint{
	Northeast: {42.7, -73.8},  // upstate NY / New England
	Southeast: {33.7, -84.4},  // Atlanta area
	West:      {37.4, -121.9}, // Bay Area
	Southwest: {33.4, -112.0}, // Phoenix area
	Midwest:   {41.9, -87.7},  // Chicago area
}

// RegionCenter returns the anchor coordinate of a region. It panics for an
// unknown region, which indicates a programming error in scenario setup.
func RegionCenter(r Region) GeoPoint {
	mustKnow(r)
	return regionCenter[r]
}

// mustKnow panics unless r is a modeled region.
func mustKnow(r Region) {
	if !r.known() {
		panic(fmt.Sprintf("netsim: unknown region %q", r))
	}
}

// regionZipPrefix gives each region a distinct zip-code prefix so that
// generated zips never collide across regions.
var regionZipPrefix = [...]string{
	Northeast: "12",
	Southeast: "30",
	West:      "95",
	Southwest: "85",
	Midwest:   "60",
}

// Zip is a zip code held in two bytes: the region and the geographic
// cell number modulo 1000 it was derived from, as region·zipSpan +
// cell%1000 + 1000. Two Zips are equal exactly when their texts are. The
// zero Zip is no zip code and prints as "".
type Zip int16

// zipSpan is the number of codes per region: cell%1000 spans −999…999.
const zipSpan = 2000

// ZipForCell derives a deterministic 5-digit zip code from a region and a
// geographic cell number. Elements in the same geographic cell share a
// zip, which is what the paper's same-zip-code predicate keys on.
func ZipForCell(r Region, cell int) Zip {
	mustKnow(r)
	return Zip(int(r)*zipSpan + cell%1000 + 1000)
}

// String returns the zip code's text: the region prefix, then cell%1000
// as fmt's %03d writes it, zero-padded to three characters, a minus sign
// included.
func (z Zip) String() string {
	if z == 0 {
		return ""
	}
	r, v := Region(z/zipSpan), int(z%zipSpan)-1000
	if !r.known() {
		return fmt.Sprintf("Zip(%d)", int(z))
	}
	b := make([]byte, 0, 8)
	b = append(b, regionZipPrefix[r]...)
	switch {
	case v < 0:
		b = append(b, '-')
		v = -v
		if v < 10 {
			b = append(b, '0')
		}
	case v < 10:
		b = append(b, "00"...)
	case v < 100:
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(v), 10))
}

// regionFoliage is the baseline foliage exposure per region: deciduous
// Northeast/Midwest see strong yearly seasonality, the Southeast does not
// (paper Fig. 3 and §2.5).
var regionFoliage = [...]float64{
	Northeast: 0.9,
	Midwest:   0.6,
	West:      0.25,
	Southwest: 0.05,
	Southeast: 0.05,
}

// RegionFoliage returns the baseline foliage exposure for a region.
func RegionFoliage(r Region) float64 {
	mustKnow(r)
	return regionFoliage[r]
}
