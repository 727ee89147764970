//go:build !race

package ctrlplane

const raceEnabled = false
