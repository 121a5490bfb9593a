package snapshot

// ReadSeed lets the external tests read the checked-in fuzz seeds.
var ReadSeed = readSeed
