type t = { m : Machine.t; cycles0 : int; counts0 : Nktrace.stamp }

let start (m : Machine.t) =
  { m; cycles0 = Clock.cycles m.clock; counts0 = Nktrace.stamp m.trace }

let cycles w = Clock.cycles w.m.Machine.clock - w.cycles0
let count w c = Nktrace.since w.m.Machine.trace w.counts0 c

let repeat ?(warm = 0) m n f =
  for _ = 1 to warm do
    f ()
  done;
  let w = start m in
  for _ = 1 to n do
    f ()
  done;
  w
