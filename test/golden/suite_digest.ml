(* Whole-suite byte-identity digest.

   Runs every experiment of bench/main.exe at two replicates on one worker
   domain in five modes (plain, --batch, --mcast --batch, --metrics,
   --mcast) and
   prints one MD5 line per emitted artefact: the run's stdout and each
   BENCH_<id>.json it wrote. The runtest rule diffs this against the
   committed suite_digest.expected, so any output drift between commits
   fails tier-1 and names the mode and file that moved.

   Usage: suite_digest.exe MAIN_EXE *)

let modes =
  [
    ("plain", []);
    ("batch", [ "--batch" ]);
    ("mcast-batch", [ "--mcast"; "--batch" ]);
    ("metrics", [ "--metrics" ]);
    ("mcast", [ "--mcast" ]);
  ]

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let run_mode exe (name, flags) =
  let dir = Filename.temp_dir "resoc-golden-" "" in
  let json_dir = Filename.concat dir "json" in
  let out_path = Filename.concat dir "stdout" in
  let args =
    [ exe; "--seeds"; "2"; "--jobs"; "1"; "--no-progress"; "--json-dir"; json_dir ] @ flags
  in
  let out = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin out Unix.stderr in
  Unix.close out;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ ->
    remove_tree dir;
    Printf.eprintf "suite_digest: %s failed in mode %s\n" exe name;
    exit 1);
  Printf.printf "%s stdout %s\n" name (Digest.to_hex (Digest.file out_path));
  let files = Sys.readdir json_dir in
  Array.sort compare files;
  Array.iter
    (fun f ->
      Printf.printf "%s %s %s\n" name f (Digest.to_hex (Digest.file (Filename.concat json_dir f))))
    files;
  remove_tree dir

let () =
  match Sys.argv with
  | [| _; exe |] -> List.iter (run_mode exe) modes
  | _ ->
    prerr_endline "usage: suite_digest.exe MAIN_EXE";
    exit 2
