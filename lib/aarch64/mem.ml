type t = {
  (* frames keyed by native-int frame index ([pa lsr 12], exact — 52
     significant bits). A boxed-int64 key would pay a custom-block
     polymorphic hash on every access, which dominates the interpreter
     hot path. *)
  frames : (int, Bytes.t) Hashtbl.t;
  (* one-entry frame cache: consecutive accesses overwhelmingly hit the
     same page (the stack or the current code page) *)
  mutable last_idx : int;
  mutable last_frame : Bytes.t;
  (* store observers, called with the frame index of every write — the
     decoded-instruction cache invalidation channel. The list is almost
     always empty or a singleton; hooks must not write memory. *)
  mutable write_hooks : (int -> unit) list;
}

let frame_size = 4096
let no_frame = Bytes.create 0

let create () =
  {
    (* small to start: many machines are built and dropped holding a
       handful of frames, and a kernel's hundreds grow the table *)
    frames = Hashtbl.create 128;
    last_idx = -1;
    last_frame = no_frame;
    write_hooks = [];
  }

(* Exact for any 64-bit PA: the shift leaves 52 significant bits. The
   offset is unaffected by the 63-bit [to_int] truncation. *)
let index_of pa = Int64.to_int (Int64.shift_right_logical pa 12)
let offset_of pa = Int64.to_int pa land 0xfff

let add_write_hook t h = t.write_hooks <- t.write_hooks @ [ h ]

(* Every mutation funnels through here exactly once per primitive write
   (the byte-wise straddling paths notify via their write8 calls). *)
let notify t idx =
  match t.write_hooks with
  | [] -> ()
  | [ h ] -> h idx  (* the common case, without an iteration closure *)
  | hooks -> List.iter (fun h -> h idx) hooks

let frame_at t idx =
  if idx = t.last_idx then t.last_frame
  else begin
    let b =
      match Hashtbl.find t.frames idx with
      | b -> b
      | exception Not_found ->
          let b = Bytes.make frame_size '\000' in
          Hashtbl.add t.frames idx b;
          b
    in
    t.last_idx <- idx;
    t.last_frame <- b;
    b
  end

let get_frame t pa = frame_at t (index_of pa)

(* Frame-pointer access for the micro-TLB: an entry that memoizes the
   [Bytes.t] of its physical frame skips both the PA reconstruction and
   this table on every subsequent access. Frames are allocated once and
   never replaced, so the pointer stays valid until the memory itself
   dies. Writers that bypass [write64] must pair their mutation with
   [notify_store]. *)
let frame_bytes t idx = frame_at t idx
let notify_store t idx = notify t idx

let read8 t pa = Char.code (Bytes.get (get_frame t pa) (offset_of pa))

let write8 t pa v =
  let idx = index_of pa in
  Bytes.set (frame_at t idx) (offset_of pa) (Char.chr (v land 0xff));
  notify t idx

(* Multi-byte accesses may straddle a frame boundary; go byte-wise unless
   the access is frame-local, which is the common case. *)
let read64 t pa =
  let off = offset_of pa in
  if off <= frame_size - 8 then Bytes.get_int64_le (get_frame t pa) off
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8)
             (Int64.of_int (read8 t (Int64.add pa (Int64.of_int i))))
    done;
    !v
  end

let write64 t pa v =
  let off = offset_of pa in
  if off <= frame_size - 8 then begin
    let idx = index_of pa in
    Bytes.set_int64_le (frame_at t idx) off v;
    notify t idx
  end
  else
    for i = 0 to 7 do
      write8 t
        (Int64.add pa (Int64.of_int i))
        (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL))
    done

let read32 t pa =
  let off = offset_of pa in
  if off <= frame_size - 4 then Bytes.get_int32_le (get_frame t pa) off
  else Int64.to_int32 (Int64.logand (read64 t pa) 0xffffffffL)

let write32 t pa v =
  let off = offset_of pa in
  if off <= frame_size - 4 then begin
    let idx = index_of pa in
    Bytes.set_int32_le (frame_at t idx) off v;
    notify t idx
  end
  else
    for i = 0 to 3 do
      write8 t
        (Int64.add pa (Int64.of_int i))
        (Int32.to_int (Int32.shift_right_logical v (8 * i)) land 0xff)
    done

let blit_string t pa s =
  String.iteri (fun i c -> write8 t (Int64.add pa (Int64.of_int i)) (Char.code c)) s

let read_string t pa len =
  String.init len (fun i -> Char.chr (read8 t (Int64.add pa (Int64.of_int i))))

let frames_allocated t = Hashtbl.length t.frames

let fold_frames t f acc =
  (* deterministic order: sort the indices so folds (fingerprints) are
     independent of hash-table iteration order *)
  let idxs = Hashtbl.fold (fun idx _ acc -> idx :: acc) t.frames [] in
  let idxs = List.sort compare idxs in
  List.fold_left (fun acc idx -> f acc idx (Hashtbl.find t.frames idx)) acc idxs

(* Copy-on-write snapshots.

   [notify] fires *after* the bytes land, so there is no pre-write
   window in which a lazily-copying snapshot could save the pristine
   frame. Instead [snapshot] copies every allocated frame eagerly (the
   post-boot image is small — a few hundred 4 KiB frames) and registers
   a write hook that records dirtied frame indices from that point on.
   [restore] then touches only the dirty set: it blits the pristine
   bytes back in place (or zero-fills frames that did not exist at
   snapshot time), so restore cost is proportional to what the run
   actually wrote, not to total memory. Blitting in place preserves the
   "frames are never replaced" contract the micro-TLB relies on. *)
type snapshot = {
  pristine : (int, Bytes.t) Hashtbl.t;
  dirty : (int, unit) Hashtbl.t;
}

let snapshot t =
  let pristine = Hashtbl.create (Hashtbl.length t.frames) in
  Hashtbl.iter (fun idx b -> Hashtbl.replace pristine idx (Bytes.copy b)) t.frames;
  let s = { pristine; dirty = Hashtbl.create 64 } in
  add_write_hook t (fun idx -> Hashtbl.replace s.dirty idx ());
  s

let restore t s =
  let idxs = Hashtbl.fold (fun idx () acc -> idx :: acc) s.dirty [] in
  List.iter
    (fun idx ->
      let frame = frame_at t idx in
      (match Hashtbl.find_opt s.pristine idx with
      | Some b -> Bytes.blit b 0 frame 0 frame_size
      | None -> Bytes.fill frame 0 frame_size '\000');
      notify t idx)
    idxs;
  Hashtbl.reset s.dirty

let snapshot_frames s = Hashtbl.length s.pristine
let snapshot_dirty s = Hashtbl.length s.dirty
