module rtsm/bench

go 1.24

require rtsm v0.0.0

replace rtsm => ../
