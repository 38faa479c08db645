module miodb/benchmark

go 1.22

require miodb v0.0.0

replace miodb => ../
