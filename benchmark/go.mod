module tmbp/benchmark

go 1.24

require tmbp v0.0.0

replace tmbp => ../
