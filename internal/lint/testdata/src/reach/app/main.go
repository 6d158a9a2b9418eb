// Package main is the reachability walker's fixture: a program whose one
// reachable type has four methods reached in four different ways and one
// method nothing calls.
package main

import "fmt"

type shape interface{ Area() float64 }

type square struct{ side float64 }

// Area is reached only through the shape interface.
func (s square) Area() float64 { return s.side * s.side }

// Perimeter is reached as a method value.
func (s square) Perimeter() float64 { return 4 * s.side }

// String is the fmt.Stringer hook fmt calls by dispatch.
func (s square) String() string { return fmt.Sprintf("square(%g)", s.side) }

// Error makes square an error; the universe error type reaches it.
func (s square) Error() string { return "degenerate square" }

// Diagonal has no caller: the walker must flag it.
func (s square) Diagonal() float64 { return s.side * 1.4142135623730951 }

func main() {
	var sh shape = square{side: 2}
	perimeter := square{side: 3}.Perimeter
	fmt.Println(sh.Area(), perimeter(), square{side: 1})
}
