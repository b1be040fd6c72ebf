package dfg

// CheckWork exposes the translator's size bound to the external tests.
var CheckWork = checkWork
