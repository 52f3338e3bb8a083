//go:build !race

package eclat_test

const raceEnabled = false
