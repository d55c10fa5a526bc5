module spstream/bench

go 1.22

require spstream v0.0.0

replace spstream => ../
