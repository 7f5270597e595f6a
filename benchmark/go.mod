module dice/benchmark

go 1.22

require dice v0.0.0

replace dice => ../
