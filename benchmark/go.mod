module gpufaas/benchmark

go 1.24

require gpufaas v0.0.0

replace gpufaas => ../
