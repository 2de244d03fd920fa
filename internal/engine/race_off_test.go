//go:build !race

package engine_test

const raceBuild = false
