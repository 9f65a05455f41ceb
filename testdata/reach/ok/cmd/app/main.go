package main

import "fixture/internal/lib"

func main() {
	// main reaches *lib.Cat before it calls Speak, and dog only after:
	// NewDog's body is walked later.
	var c lib.Speaker = lib.NewCat()
	println(c.Speak())
	var d lib.Speaker = lib.NewDog()
	println(d.Speak())
	lib.Used()
}
