package silc

// RaceEnabled lets the external test package skip what the race detector
// only slows down or inflates, as this package's own tests do.
const RaceEnabled = raceEnabled
