module renonfs/benchmark

go 1.22

require renonfs v0.0.0

replace renonfs => ../
