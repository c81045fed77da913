// Package compat models the retired compat shim package for the
// nodeprecated fixtures; matching is by (function name, package name),
// so this stand-in triggers the same analyzer paths.
package compat

// DetectBatchStrategy is the retired pre-ctx wrapper.
func DetectBatchStrategy() error { return nil }

// DetectBatchFused is the retired pre-ctx wrapper.
func DetectBatchFused() error { return nil }
