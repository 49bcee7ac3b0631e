//go:build !race

package faas

const raceEnabled = false
