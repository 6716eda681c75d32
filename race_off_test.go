//go:build !race

package xar

const raceEnabled = false
