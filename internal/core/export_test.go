package core

import "time"

// GuardrailFunc adapts a function to Guardrail.
type GuardrailFunc func(now time.Duration, loop string, action Action) error

// Check implements Guardrail.
func (f GuardrailFunc) Check(now time.Duration, loop string, action Action) error {
	return f(now, loop, action)
}

// NotifierFunc adapts a function to Notifier.
type NotifierFunc func(now time.Duration, loop string, action Action, result *ActionResult)

// Notify implements Notifier.
func (f NotifierFunc) Notify(now time.Duration, loop string, action Action, result *ActionResult) {
	f(now, loop, action, result)
}
