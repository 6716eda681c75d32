module xar/benchmark

go 1.22

require xar v0.0.0

replace xar => ../
