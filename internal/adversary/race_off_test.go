//go:build !race

package adversary

const raceEnabled = false
