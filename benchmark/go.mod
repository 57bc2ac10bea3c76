module silc/benchmark

go 1.24

require silc v0.0.0

replace silc => ../
