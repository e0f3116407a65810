module streammap/bench

go 1.24

require streammap v0.0.0

replace streammap => ../
