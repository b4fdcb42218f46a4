package core

// PoisonPools exposes poisonPools to the external pool tests, which
// import the root package to drive AssessBatch.
var PoisonPools = poisonPools
