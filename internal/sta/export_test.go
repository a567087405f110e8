package sta

// LevelBuckets exposes levelize to the external tests, which need the
// synthesis flow (and so cannot live in this package).
var LevelBuckets = levelize
