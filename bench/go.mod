module github.com/troxy-bft/troxy/bench

go 1.24

require github.com/troxy-bft/troxy v0.0.0

replace github.com/troxy-bft/troxy => ../
