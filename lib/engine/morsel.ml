(* Morsel-driven helpers shared by the physical operators: hash-based
   partitioning and a partitioned duplicate elimination whose output is
   bit-identical to [Relation.dedup].

   The partition id of a row is a pure function of its key words (derived
   from the same FNV-1a hash the Rowtable buckets on), so a key lives in
   exactly one partition regardless of jobs count or morsel size.  That is
   what makes per-partition results mergeable without re-checking: any two
   equal rows meet in the same partition's table. *)

let partition_of ~width ~parts data off =
  (Rowtable.hash_slice ~width data off land max_int) mod parts

type keep = {
  kidx : Store.Intvec.t;  (* original row indexes kept, ascending *)
}

let dedup pool ~morsel rel =
  let n = Relation.rows rel in
  let w = Relation.cols rel in
  let parts = Par.jobs pool in
  if parts <= 1 || Par.is_busy pool || w = 0 || n <= morsel then
    Relation.dedup rel
  else begin
    let data = Relation.unsafe_data rel in
    (* Worker [p] scans all rows in order and keeps the first occurrence
       of every key that hashes to its partition; the recorded original
       indexes are therefore ascending per partition.  A key's global
       first occurrence is its first occurrence within its one partition,
       so the ascending-index merge below reproduces [Relation.dedup]'s
       first-occurrence order exactly. *)
    let keeps =
      Par.parallel_map pool
        (fun p ->
          let tbl = Rowtable.create ~width:w () in
          let kidx = Store.Intvec.create () in
          for i = 0 to n - 1 do
            let off = i * w in
            if
              partition_of ~width:w ~parts data off = p
              && Rowtable.add_if_absent tbl data off
            then Store.Intvec.push kidx i
          done;
          { kidx })
        (Array.init parts Fun.id)
    in
    let out = Relation.create ~cols:w in
    let pos = Array.make parts 0 in
    let rec merge () =
      let best = ref (-1) and best_i = ref max_int in
      for p = 0 to parts - 1 do
        if pos.(p) < Store.Intvec.length keeps.(p).kidx then begin
          let i = Store.Intvec.get keeps.(p).kidx pos.(p) in
          if i < !best_i then begin
            best_i := i;
            best := p
          end
        end
      done;
      if !best >= 0 then begin
        pos.(!best) <- pos.(!best) + 1;
        Relation.append_slice out data (!best_i * w);
        merge ()
      end
    in
    merge ();
    out
  end
