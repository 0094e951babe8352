// The benchmark is a module of its own so that the root module's
// `go build ./... && go test ./...` neither builds nor runs it; the import
// path keeps the gpufs/ prefix, which is what lets it import
// gpufs/internal/... packages.
module gpufs/benchmark

go 1.22

require gpufs v0.0.0

replace gpufs => ../
