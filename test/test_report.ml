(* Report formatting and cost-model sanity: the table rows the bench
   prints, the paper's cycle-to-wall-clock conversion, and cross-module
   invariants of the modelled costs. *)

let report_row_formatting () =
  let t = Engarde.Report.create () in
  t.Engarde.Report.instructions <- 262228;
  Sgx.Perf.count_cycles t.Engarde.Report.disassembly 694_405_019;
  Sgx.Perf.count_cycles t.Engarde.Report.policy 1_307_411_662;
  Sgx.Perf.count_cycles t.Engarde.Report.loading 128_696;
  let row = Engarde.Report.row ~benchmark:"nginx" t in
  let line = Engarde.Report.row_to_string row in
  (* The paper's nginx numbers, comma-grouped as the paper prints them. *)
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("contains " ^ frag) true
        (Astring.String.is_infix ~affix:frag line))
    [ "nginx"; "262,228"; "694,405,019"; "1,307,411,662"; "128,696" ]

let report_sgx_instructions_cost_10k () =
  let t = Engarde.Report.create () in
  Sgx.Perf.count_sgx t.Engarde.Report.disassembly 3;
  Sgx.Perf.count_cycles t.Engarde.Report.disassembly 5;
  let row = Engarde.Report.row ~benchmark:"x" t in
  Alcotest.(check int) "3 SGX instr + 5 cycles" 30_005 row.Engarde.Report.disassembly_cycles

let wall_clock_conversion () =
  (* The paper's example: 694,405,019 cycles at 3.5 GHz = 198.4 ms. *)
  let ms = Engarde.Report.wall_clock_ms ~cycles:694_405_019 ~ghz:3.5 in
  Alcotest.(check bool) "198.4 ms, as in the Figure 3 caption" true (abs_float (ms -. 198.4) < 0.1)

let costmodel_consistency () =
  (* Invariants other modules depend on. *)
  Alcotest.(check bool) "a page holds a whole number of buffer records" true
    (Sgx.Epc.page_size mod Engarde.Costmodel.buffer_record_bytes = 0);
  Alcotest.(check bool) "trampoline is 2 SGX instructions = 20K cycles" true
    (let p = Sgx.Perf.create () in
     Sgx.Perf.trampoline p;
     Sgx.Perf.total_cycles p = 2 * Sgx.Perf.cycles_per_sgx_instruction)

let disasm_bytes_between () =
  let img = Toolchain.Linker.link (Toolchain.Workloads.build Toolchain.Codegen.plain
                                     Toolchain.Workloads.Mcf) in
  let buffer, _ =
    Result.get_ok
      (Engarde.Disasm.run (Sgx.Perf.create ()) ~code:img.Toolchain.Linker.text
         ~base:img.Toolchain.Linker.text_addr ~symbols:img.Toolchain.Linker.symbols)
  in
  let base = buffer.Engarde.Disasm.base in
  Alcotest.(check string) "bytes_between = raw slice"
    (String.sub img.Toolchain.Linker.text 16 32)
    (Engarde.Disasm.bytes_between buffer ~lo:(base + 16) ~hi:(base + 48));
  Alcotest.check_raises "out of range" (Invalid_argument "Disasm.bytes_between") (fun () ->
      ignore (Engarde.Disasm.bytes_between buffer ~lo:(base - 1) ~hi:base));
  (* index_of_addr inverts entry addresses. *)
  Array.iteri
    (fun i (e : Engarde.Disasm.entry) ->
      if i mod 997 = 0 then
        Alcotest.(check (option int)) "index_of_addr" (Some i)
          (Engarde.Disasm.index_of_addr buffer e.Engarde.Disasm.addr))
    buffer.Engarde.Disasm.entries

let () =
  Alcotest.run "report"
    [
      ( "report",
        [
          Alcotest.test_case "row formatting" `Quick report_row_formatting;
          Alcotest.test_case "sgx instructions at 10K" `Quick report_sgx_instructions_cost_10k;
          Alcotest.test_case "wall clock conversion" `Quick wall_clock_conversion;
          Alcotest.test_case "costmodel consistency" `Quick costmodel_consistency;
          Alcotest.test_case "disasm buffer accessors" `Quick disasm_bytes_between;
        ] );
    ]
