(* Static judging for the tests: policy contexts built by the enclave's
   own front half ([Engarde.Provision.judge] with no policies), so a
   policy test sees exactly the analysis a provisioning run would. *)

let context ?(report = Engarde.Report.create ()) raw =
  match Engarde.Provision.judge report ~policies:[] raw with
  | Ok j -> j.Engarde.Provision.ctx
  | Error r -> Alcotest.failf "judge: %s" (Engarde.Provision.rejection_to_string r)

let context_of_image ?report (img : Toolchain.Linker.image) =
  context ?report img.Toolchain.Linker.elf

(* Function symbols for code assembled at 0x1000. *)
let function_symbols (asm : Toolchain.Asm.result) =
  List.map
    (fun (name, off, size) ->
      Elf64.Types.
        { st_name = name; st_value = 0x1000 + off; st_size = size;
          st_info = (stb_global lsl 4) lor stt_func })
    asm.Toolchain.Asm.functions

(* Code assembled at 0x1000 as a one-section ELF, so hand-made fixtures
   are judged like any client binary. *)
let image_of_asm ?(symbols = []) (asm : Toolchain.Asm.result) =
  Elf64.Writer.build
    {
      Elf64.Writer.default_input with
      Elf64.Writer.entry = 0x1000;
      text_addr = 0x1000;
      text = asm.Toolchain.Asm.code;
      symbols = function_symbols asm @ symbols;
    }

(* The paper's "Policy Checking" column of [report]: index build, CFG
   recovery, the interprocedural tier and every visitor. *)
let policy_cycles report = (Engarde.Report.row ~benchmark:"" report).Engarde.Report.policy_cycles

(* The one executable section of a parsed ELF, for the reader, linker
   and rewriter tests that check it directly. *)
let text_section elf =
  match Elf64.Reader.text_sections elf with
  | [ t ] -> t
  | l -> Alcotest.failf "expected one executable section, found %d" (List.length l)
