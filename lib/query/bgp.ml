type pattern_term = Var of string | Const of Rdf.Term.t

type atom = { s : pattern_term; p : pattern_term; o : pattern_term }

type t = { head : pattern_term list; body : atom list }

let pattern_term_compare a b =
  match (a, b) with
  | Var x, Var y -> String.compare x y
  | Var _, Const _ -> -1
  | Const _, Var _ -> 1
  | Const x, Const y -> Rdf.Term.compare x y

let pattern_term_equal a b = pattern_term_compare a b = 0

let atom_compare a b =
  let c = pattern_term_compare a.s b.s in
  if c <> 0 then c
  else
    let c = pattern_term_compare a.p b.p in
    if c <> 0 then c else pattern_term_compare a.o b.o

let atom_equal a b = atom_compare a b = 0

let atom s p o = { s; p; o }

let atom_positions a = [ a.s; a.p; a.o ]

let atom_vars a =
  List.filter_map (function Var v -> Some v | Const _ -> None)
    (atom_positions a)
  |> List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) []
  |> List.rev

let vars q =
  List.concat_map atom_vars q.body
  |> List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) []
  |> List.rev

let make head body =
  if body = [] then invalid_arg "Bgp.make: empty body";
  let body_vars = vars { head = []; body } in
  List.iter
    (function
      | Var v when not (List.mem v body_vars) ->
          invalid_arg ("Bgp.make: head variable not in body: " ^ v)
      | Var _ | Const _ -> ())
    head;
  { head; body }

let head_vars q =
  List.filter_map (function Var v -> Some v | Const _ -> None) q.head
  |> List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) []
  |> List.rev

let normalize q =
  let counter = ref 0 in
  let renaming = Hashtbl.create 8 in
  let fresh b =
    match Hashtbl.find_opt renaming b with
    | Some v -> v
    | None ->
        incr counter;
        let v = Printf.sprintf "_bn%d" !counter in
        Hashtbl.add renaming b v;
        v
  in
  let term = function
    | Const (Rdf.Term.Bnode b) -> Var (fresh b)
    | (Var _ | Const _) as t -> t
  in
  let map_atom a = { s = term a.s; p = term a.p; o = term a.o } in
  { head = List.map term q.head; body = List.map map_atom q.body }

let dedup_body q = { q with body = List.sort_uniq atom_compare q.body }

let atoms_connected a b =
  List.exists (fun v -> List.mem v (atom_vars b)) (atom_vars a)

let fragment_connected f g =
  let vf = List.concat_map atom_vars f in
  let vg = List.concat_map atom_vars g in
  List.exists (fun v -> List.mem v vg) vf

let is_connected atoms =
  match atoms with
  | [] | [ _ ] -> true
  | first :: rest ->
      (* Grow a connected component from the first atom. *)
      let rec grow component frontier remaining =
        match frontier with
        | [] -> remaining = []
        | _ ->
            let touched, rest =
              List.partition
                (fun a -> List.exists (atoms_connected a) frontier)
                remaining
            in
            grow (component @ frontier) touched rest
      in
      grow [] [ first ] rest

let subst_term bindings = function
  | Var v as t -> (
      match List.assoc_opt v bindings with
      | Some c -> Const c
      | None -> t)
  | Const _ as t -> t

let apply_subst bindings q =
  let term = subst_term bindings in
  let map_atom a = { s = term a.s; p = term a.p; o = term a.o } in
  { head = List.map term q.head; body = List.map map_atom q.body }

let rename_var x y q =
  let term = function Var v when v = x -> Var y | t -> t in
  let map_atom a = { s = term a.s; p = term a.p; o = term a.o } in
  { head = List.map term q.head; body = List.map map_atom q.body }

(* Canonical variable names come from preallocated tables: [canonical]
   runs once per reformulated disjunct, so formatting "h3" or "e1" afresh
   on every call is measurable. *)
let name_table prefix = Array.init 64 (fun i -> prefix ^ string_of_int i)
let h_names = name_table "h"
let e_names = name_table "e"

let var_name names prefix i =
  if i < Array.length names then names.(i) else prefix ^ string_of_int i

let rec lookup_name v = function
  | [] -> raise Not_found
  | (w, n) :: rest -> if String.equal w v then n else lookup_name v rest

let mem_name v = List.exists (String.equal v)

(* Total parallel renaming: every variable of [q] must be in the mapping's
   domain; all occurrences are replaced in one traversal, so permuting
   renamings cannot capture each other. *)
let rename_parallel mapping q =
  let term = function
    | Var v -> Var (lookup_name v mapping)
    | Const _ as t -> t
  in
  let map_atom a = { s = term a.s; p = term a.p; o = term a.o } in
  { head = List.map term q.head; body = List.map map_atom q.body }

(* Canonical form: an exact canonicalization of the query modulo renaming
   of non-distinguished (existential) variables and reordering of atoms.
   Distinguished variables are pinned positionally to h0, h1, …; the
   existential variables are then assigned e0, e1, … by

   1. colour refinement: each existential variable gets a signature built
      from its occurrences (position within the atom, the other positions'
      contents, with existential neighbours represented by their current
      colour), iterated until the partition stabilizes; and
   2. exhaustive tie-breaking: within a colour class the assignment that
      yields the lexicographically least sorted body is chosen.  Classes
      are almost always singletons, so the factorial search is vestigial.

   The result is renaming-invariant and order-invariant, which the
   reformulation engines rely on for duplicate elimination.  Signatures
   are plain strings and their exact bytes fix the colour ranks and the
   class order, so the refinement below works on variable indexes but
   prints every signature exactly as "<i>=<repr>|…" with "c:"/"h:"/"e:"/
   "self" representations. *)
let canonical q =
  let hv =
    List.fold_left
      (fun acc t ->
        match t with
        | Var v when not (mem_name v acc) -> v :: acc
        | Var _ | Const _ -> acc)
      [] q.head
    |> List.rev
  in
  let head_mapping = List.mapi (fun i v -> (v, var_name h_names "h" i)) hv in
  (* existential variables in first-occurrence s/p/o order, in one pass *)
  let evars =
    let note acc = function
      | Var v when not (mem_name v hv || mem_name v acc) -> v :: acc
      | Var _ | Const _ -> acc
    in
    List.fold_left (fun acc a -> note (note (note acc a.s) a.p) a.o) [] q.body
    |> List.rev
  in
  match evars with
  | [] ->
      let q = rename_parallel head_mapping q in
      { q with body = List.sort_uniq atom_compare q.body }
  | [ only ] ->
      (* Single existential: no symmetry to break. *)
      let q = rename_parallel ((only, e_names.(0)) :: head_mapping) q in
      { q with body = List.sort_uniq atom_compare q.body }
  | _ ->
      (* --- colour refinement over existential variables --- *)
      let ev = Array.of_list evars in
      let n = Array.length ev in
      let index v =
        let rec go i =
          if i = n then -1 else if String.equal ev.(i) v then i else go (i + 1)
        in
        go 0
      in
      let atoms = Array.of_list q.body in
      (* Per atom position: the existential's index, or -1 and the
         position's fixed representation (constants printed once). *)
      let slot = Array.make_matrix (Array.length atoms) 3 (-1) in
      let fixed = Array.make_matrix (Array.length atoms) 3 "" in
      (* occurrences.(k): the atoms (by index) mentioning existential k *)
      let occurrences = Array.make n [] in
      Array.iteri
        (fun j a ->
          List.iteri
            (fun i t ->
              match t with
              | Var v -> (
                  match index v with
                  | -1 -> fixed.(j).(i) <- "h:" ^ lookup_name v head_mapping
                  | k ->
                      slot.(j).(i) <- k;
                      (match occurrences.(k) with
                      | j' :: _ when j' = j -> ()
                      | l -> occurrences.(k) <- j :: l))
              | Const c -> fixed.(j).(i) <- "c:" ^ Rdf.Term.to_string c)
            [ a.s; a.p; a.o ])
        atoms;
      let colour = Array.make n 0 in
      let buf = Buffer.create 128 in
      let occurrence k j =
        Buffer.clear buf;
        for i = 0 to 2 do
          if i > 0 then Buffer.add_char buf '|';
          Buffer.add_string buf (string_of_int i);
          Buffer.add_char buf '=';
          match slot.(j).(i) with
          | -1 -> Buffer.add_string buf fixed.(j).(i)
          | e when e = k -> Buffer.add_string buf "self"
          | e ->
              Buffer.add_string buf "e:";
              Buffer.add_string buf (string_of_int colour.(e))
        done;
        Buffer.contents buf
      in
      let signature k =
        String.concat ";"
          (List.sort String.compare (List.map (occurrence k) occurrences.(k)))
      in
      (* One round: every signature against the current colours, then the
         new colours (signature ranks).  Returns the round's signatures
         and whether any colour moved. *)
      let refine () =
        let sigs = Array.init n signature in
        let distinct = List.sort_uniq String.compare (Array.to_list sigs) in
        let changed = ref false in
        Array.iteri
          (fun k s ->
            let rec rank i = function
              | [] -> assert false
              | x :: _ when String.equal x s -> i
              | _ :: rest -> rank (i + 1) rest
            in
            let c = rank 0 distinct in
            if colour.(k) <> c then begin
              colour.(k) <- c;
              changed := true
            end)
          sigs;
        (sigs, !changed)
      in
      (* A round that moved no colour leaves the signatures it computed
         current; when the round limit cuts refinement short they are
         recomputed against the final colours. *)
      let rec iterate rounds =
        let sigs, changed = refine () in
        if not changed then sigs
        else if rounds > 1 then iterate (rounds - 1)
        else Array.init n signature
      in
      let sigs = iterate (n + 2) in
      (* --- order colour classes canonically, tie-break exhaustively --- *)
      let classes =
        let tbl = Hashtbl.create 8 in
        Array.iteri
          (fun k v ->
            let key = (colour.(k), sigs.(k)) in
            Hashtbl.replace tbl key
              (v :: (Option.value ~default:[] (Hashtbl.find_opt tbl key))))
          ev;
        Hashtbl.fold (fun (_, s) vs acc -> (s, vs) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.map snd
      in
      let rec permutations = function
        | [] -> [ [] ]
        | l ->
            List.concat_map
              (fun x ->
                List.map (fun rest -> x :: rest)
                  (permutations (List.filter (fun y -> y <> x) l)))
              l
      in
      let orderings =
        (* All concatenations of within-class permutations, class order
           fixed.  Cap the search to avoid pathological blow-ups; queries
           with >6-way symmetric variables fall back to a fixed order
           (costing at worst a missed duplicate). *)
        List.fold_left
          (fun acc cls ->
            let perms =
              if List.length cls > 6 then [ cls ] else permutations cls
            in
            List.concat_map
              (fun prefix -> List.map (fun p -> prefix @ p) perms)
              acc)
          [ [] ] classes
      in
      let candidate ordering =
        let mapping =
          head_mapping
          @ List.mapi (fun i v -> (v, var_name e_names "e" i)) ordering
        in
        let q' = rename_parallel mapping q in
        { q' with body = List.sort_uniq atom_compare q'.body }
      in
      let better a b =
        let c = List.compare atom_compare a.body b.body in
        if c <> 0 then c < 0
        else List.compare pattern_term_compare a.head b.head < 0
      in
      List.fold_left
        (fun best ordering ->
          let cand = candidate ordering in
          match best with
          | None -> Some cand
          | Some b -> if better cand b then Some cand else best)
        None orderings
      |> Option.get

let raw_compare a b =
  let c = List.compare atom_compare a.body b.body in
  if c <> 0 then c else List.compare pattern_term_compare a.head b.head

let compare a b = raw_compare (canonical a) (canonical b)

let equal a b = compare a b = 0

(* ---- Reference evaluation ---- *)

let match_term binding t value =
  match t with
  | Const c -> if Rdf.Term.equal c value then Some binding else None
  | Var v -> (
      match List.assoc_opt v binding with
      | Some bound ->
          if Rdf.Term.equal bound value then Some binding else None
      | None -> Some ((v, value) :: binding))

let match_atom binding a (tr : Rdf.Triple.t) =
  match match_term binding a.s tr.subj with
  | None -> None
  | Some b -> (
      match match_term b a.p tr.pred with
      | None -> None
      | Some b -> match_term b a.o tr.obj)

let eval g q =
  let q = normalize q in
  let facts = Rdf.Graph.fact_list g in
  let rec search binding = function
    | [] ->
        let row =
          List.map
            (function
              | Const c -> c
              | Var v -> (
                  match List.assoc_opt v binding with
                  | Some c -> c
                  | None -> assert false))
            q.head
        in
        [ row ]
    | a :: rest ->
        List.concat_map
          (fun tr ->
            match match_atom binding a tr with
            | None -> []
            | Some b -> search b rest)
          facts
  in
  List.sort_uniq (List.compare Rdf.Term.compare) (search [] q.body)

let answer g q = eval (Rdf.Saturation.saturate g) q

let pattern_term_to_string = function
  | Var v -> "?" ^ v
  | Const c -> Rdf.Term.to_string c

let to_string q =
  let head = String.concat ", " (List.map pattern_term_to_string q.head) in
  let atom_str a =
    String.concat " " (List.map pattern_term_to_string (atom_positions a))
  in
  Printf.sprintf "q(%s) :- %s" head
    (String.concat ", " (List.map atom_str q.body))

let pp fmt q = Format.pp_print_string fmt (to_string q)
