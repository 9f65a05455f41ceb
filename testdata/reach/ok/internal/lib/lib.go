// Package lib is the reachability checker's fixture: cmd/app, the root
// test, an init function and a var initialiser reach part of it.
package lib

// Speaker is called only through the interface.
type Speaker interface{ Speak() string }

type dog struct{}

// NewDog is called by main.
func NewDog() Speaker { return dog{} }

// Speak is reached only through Speaker, on a type main reaches.
func (dog) Speak() string { return "woof" }

// Cat is a Speaker that main holds as itself before it calls Speak.
type Cat struct{}

// NewCat is called by main.
func NewCat() *Cat { return &Cat{} }

// Speak is reached only through Speaker.
func (*Cat) Speak() string { return "meow" }

// Used is called by main.
func Used() { helper() }

func helper() {}

// FromTest is called by the root test.
func FromTest() {}

var greeting = initial()

func initial() string { return "hello" }

func init() { registered() }

func registered() {}

type orphan struct{}

// Speak has the name of a reached interface method, but nothing reaches orphan.
func (orphan) Speak() string { return "..." }

// Kept is allow-listed, and what only it calls is its own.
func Kept() { keptHelper() }

func keptHelper() {}

// Unused is exported and called by nothing.
func Unused() {}

func unusedHelper() {}
