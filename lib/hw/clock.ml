type t = { mutable cycles : int }

let create () = { cycles = 0 }
let charge t c = t.cycles <- t.cycles + c
let cycles t = t.cycles
