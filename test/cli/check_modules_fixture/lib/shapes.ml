let dead = 1
let opened = 2
let reexported = 3
let allowed = 4
