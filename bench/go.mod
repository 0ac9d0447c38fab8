// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` neither builds nor depends on it; the
// import path keeps the `repro/` prefix, which is what lets it import
// repro/internal/... .
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
