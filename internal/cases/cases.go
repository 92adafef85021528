// Package cases assembles the six use-case factories into a control-plane
// registry: the one import that makes every loop in this reproduction
// spawnable from a declarative LoopSpec.
package cases

import (
	"autoloop/internal/cases/ioqoscase"
	"autoloop/internal/cases/maintcase"
	"autoloop/internal/cases/misconfcase"
	"autoloop/internal/cases/ostcase"
	"autoloop/internal/cases/powercase"
	"autoloop/internal/cases/schedcase"
	"autoloop/internal/control"
)

// Factories returns the six case factories in documentation order.
func Factories() []control.CaseFactory {
	return []control.CaseFactory{
		schedcase.Factory(),
		maintcase.Factory(),
		ioqoscase.Factory(),
		ostcase.Factory(),
		misconfcase.Factory(),
		powercase.Factory(),
	}
}

// NewRegistry returns a control registry with every use case registered.
func NewRegistry() *control.Registry {
	r := control.NewRegistry()
	for _, f := range Factories() {
		r.MustRegister(f)
	}
	return r
}
