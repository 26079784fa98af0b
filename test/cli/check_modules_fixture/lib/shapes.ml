let dead = 1
let opened = 2
let reexported = 3
let allowed = 4
let scale ?(factor = 1) ?(unit_name = fun ?upper:_ s -> s) n =
  ignore (unit_name "");
  factor * n
