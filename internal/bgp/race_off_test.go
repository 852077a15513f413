//go:build !race

package bgp

const raceEnabled = false
