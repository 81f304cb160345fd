// The benchmark is a module of its own so that it owns its build file
// and the root module's `go build ./... && go test ./...` never depend
// on it; the replace directive points it at the checkout it sits in.
module tap/bench

go 1.22

require tap v0.0.0

replace tap => ../
