module vida/bench

go 1.22

require vida v0.0.0

replace vida => ../
