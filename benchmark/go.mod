module starcdn/benchmark

go 1.22

require starcdn v0.0.0

replace starcdn => ../
