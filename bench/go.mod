// The benchmark is a module of its own so that it builds from the files
// under bench/ plus the repository it measures: the module path keeps the
// ringrpq/ prefix, which is what lets it import ringrpq/internal/...
module ringrpq/bench

go 1.24

require ringrpq v0.0.0

replace ringrpq => ../
