module slicing/benchmark

go 1.24

require slicing v0.0.0

replace slicing => ../
