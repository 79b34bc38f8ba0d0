module hstoragedb/bench

go 1.22

require hstoragedb v0.0.0

replace hstoragedb => ../
