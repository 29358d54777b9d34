module asyncft/bench

go 1.21

require asyncft v0.0.0

replace asyncft => ../
