// Package main is the reachability walker's fixture: a program whose one
// reachable type has five methods reached in five different ways and
// three methods nothing calls.
package main

import (
	"fmt"
	"math/rand"
)

type shape interface{ Area() float64 }

// namer is a compile-time assertion target: nothing calls Name through it.
type namer interface{ Name() string }

var _ namer = square{}

type square struct{ side float64 }

// Area is reached only through the shape interface.
func (s square) Area() float64 { return s.side * s.side }

// Perimeter is reached as a method value.
func (s square) Perimeter() float64 { return 4 * s.side }

// String is the fmt.Stringer hook fmt calls by dispatch.
func (s square) String() string { return fmt.Sprintf("square(%g)", s.side) }

// Error makes square an error; the universe error type reaches it.
func (s square) Error() string { return "degenerate square" }

// Int63 is called directly. With Seed, square has both method names of
// rand.Source, but not both signatures.
func (s square) Int63() int64 { return int64(s.side) }

// Diagonal has no caller: the walker must flag it.
func (s square) Diagonal() float64 { return s.side * 1.4142135623730951 }

// Name implements namer, but no code calls namer.Name: the walker must
// flag it.
func (s square) Name() string { return "square" }

// Seed shares its name, not its signature, with rand.Source.Seed, so
// square is no rand.Source: the walker must flag it.
func (s square) Seed() int64 { return int64(s.side) }

func main() {
	var sh shape = square{side: 2}
	perimeter := square{side: 3}.Perimeter
	var src rand.Source = rand.NewSource(square{side: 4}.Int63())
	fmt.Println(sh.Area(), perimeter(), square{side: 1}, src.Int63())
}
