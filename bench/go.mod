module proteus/bench

go 1.22

require proteus v0.0.0

replace proteus => ../
