module typecoin/benchmark

go 1.22

require typecoin v0.0.0

replace typecoin => ../
