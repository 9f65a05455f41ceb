module unilog/bench

go 1.24

require unilog v0.0.0

replace unilog => ../
