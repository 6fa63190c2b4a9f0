type error = Blocked_by_iommu of Addr.frame | Out_of_range of Addr.pa

let pp_error ppf = function
  | Blocked_by_iommu f -> Format.fprintf ppf "IOMMU blocked DMA to frame %d" f
  | Out_of_range pa -> Format.fprintf ppf "DMA address %#x out of range" pa

let write (m : Machine.t) ~pa data =
  let len = Bytes.length data in
  if len = 0 then Ok ()
  else if not (Phys_mem.valid_pa m.mem pa && Phys_mem.valid_pa m.mem (pa + len - 1))
  then Error (Out_of_range pa)
  else begin
    let rec go pa off remaining =
      if remaining = 0 then Ok ()
      else
        let frame = Addr.frame_of_pa pa in
        if not (Iommu.write_allowed m.iommu frame) then
          Error (Blocked_by_iommu frame)
        else begin
          let chunk = min remaining (Addr.page_size - Addr.page_offset pa) in
          Phys_mem.blit_from_bytes data off m.mem pa chunk;
          go (pa + chunk) (off + chunk) (remaining - chunk)
        end
    in
    Machine.count_ev m Nktrace.Dma_write;
    go pa 0 len
  end

let read (m : Machine.t) ~pa ~len =
  if len = 0 then Ok Bytes.empty
  else if not (Phys_mem.valid_pa m.mem pa && Phys_mem.valid_pa m.mem (pa + len - 1))
  then Error (Out_of_range pa)
  else Ok (Phys_mem.read_bytes m.mem pa len)
