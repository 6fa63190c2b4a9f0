type t = int

let empty = 0
let bit_p = 1
let bit_rw = 1 lsl 1
let bit_us = 1 lsl 2
let bit_a = 1 lsl 5
let bit_d = 1 lsl 6
let bit_ps = 1 lsl 7
let bit_g = 1 lsl 8
let bit_nx = 1 lsl 62
let frame_mask = 0xF_FFFF_FFFF_F000 (* bits 12..47 *)

type flags = {
  present : bool;
  writable : bool;
  user : bool;
  accessed : bool;
  dirty : bool;
  large : bool;
  global : bool;
  nx : bool;
}

let no_flags =
  {
    present = false;
    writable = false;
    user = false;
    accessed = false;
    dirty = false;
    large = false;
    global = false;
    nx = false;
  }

let kernel_rw = { no_flags with present = true; writable = true }
let kernel_ro = { no_flags with present = true }
let kernel_rx = kernel_ro
let kernel_ro_nx = { no_flags with present = true; nx = true }

let kernel_rw_nx =
  { no_flags with present = true; writable = true; nx = true }

let user_rw_nx =
  { no_flags with present = true; writable = true; user = true; nx = true }

let user_rx = { no_flags with present = true; user = true }
let user_ro_nx = { no_flags with present = true; user = true; nx = true }

let bits_of_flags f =
  (if f.present then bit_p else 0)
  lor (if f.writable then bit_rw else 0)
  lor (if f.user then bit_us else 0)
  lor (if f.accessed then bit_a else 0)
  lor (if f.dirty then bit_d else 0)
  lor (if f.large then bit_ps else 0)
  lor (if f.global then bit_g else 0)
  lor if f.nx then bit_nx else 0

let make ~frame f = (Addr.pa_of_frame frame land frame_mask) lor bits_of_flags f
let frame t = (t land frame_mask) lsr Addr.page_shift

let flags t =
  {
    present = t land bit_p <> 0;
    writable = t land bit_rw <> 0;
    user = t land bit_us <> 0;
    accessed = t land bit_a <> 0;
    dirty = t land bit_d <> 0;
    large = t land bit_ps <> 0;
    global = t land bit_g <> 0;
    nx = t land bit_nx <> 0;
  }

let is_present t = t land bit_p <> 0
let is_writable t = t land bit_rw <> 0
let is_user t = t land bit_us <> 0
let is_large t = t land bit_ps <> 0
let is_global t = t land bit_g <> 0
let is_nx t = t land bit_nx <> 0
let with_flags t f = (t land frame_mask) lor bits_of_flags f

let set_bit t bit v = if v then t lor bit else t land lnot bit
let set_writable t v = set_bit t bit_rw v
let set_present t v = set_bit t bit_p v
let set_nx t v = set_bit t bit_nx v
let set_global t v = set_bit t bit_g v
let set_accessed t = t lor bit_a
let set_dirty t = t lor bit_d
