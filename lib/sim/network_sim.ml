module Mi_digraph = Mineq.Mi_digraph
module Routing = Mineq.Routing

type config = {
  buffer_capacity : int;
  injection_rate : float;
  pattern : Traffic.t;
  warmup : int;
  cycles : int;
  drop_on_full : bool;
}

let default_config =
  { buffer_capacity = 4;
    injection_rate = 0.5;
    pattern = Traffic.uniform;
    warmup = 200;
    cycles = 1000;
    drop_on_full = false
  }

type stats = {
  offered : int;
  refused : int;
  injected : int;
  delivered : int;
  dropped : int;
  latency_sum : int;
  latency_max : int;
  measured_cycles : int;
  terminals : int;
}

let throughput s =
  float_of_int s.delivered /. float_of_int (s.measured_cycles * s.terminals)

let mean_latency s =
  if s.delivered = 0 then nan else float_of_int s.latency_sum /. float_of_int s.delivered

type packet = { dst : int; word : int; born : int }

let run ?(config = default_config) rng g =
  if config.buffer_capacity < 1 then invalid_arg "Network_sim.run: capacity must be >= 1";
  let n = Mi_digraph.stages g in
  let per = Mi_digraph.nodes_per_stage g in
  let terminals = Mi_digraph.inputs g in
  (* words.(cell).(dst): the packet's routing decision string from its
     source cell, stage-1 choice in the most significant bit (raises
     Failure if not Banyan).  down: Packed.downstream's flat tables,
     entry [2 * cell + out_port] = [(child lsl 1) lor in_port] — which
     of the child's two FIFOs the link feeds — so a hop in the cycle
     loop is two int reads and a shift, no tuple boxing. *)
  let words = Routing.port_words (Mi_digraph.packed g) in
  let down = Mineq.Packed.downstream (Mi_digraph.packed g) in
  (* queues.(s).(x).(p): FIFO of the p-th input of cell x at stage s. *)
  let queues = Array.init n (fun _ -> Array.init per (fun _ -> [| Queue.create (); Queue.create () |])) in
  let arbiter = Array.init n (fun _ -> Array.make per 0) in
  let stats =
    ref
      { offered = 0;
        refused = 0;
        injected = 0;
        delivered = 0;
        dropped = 0;
        latency_sum = 0;
        latency_max = 0;
        measured_cycles = config.cycles;
        terminals
      }
  in
  let measuring cycle = cycle >= config.warmup in
  let out_port pkt stage = (pkt.word lsr (n - 1 - stage)) land 1 in
  let deliver cycle pkt =
    if measuring cycle then begin
      let s = !stats in
      let latency = cycle - pkt.born + 1 in
      stats :=
        { s with
          delivered = s.delivered + 1;
          latency_sum = s.latency_sum + latency;
          latency_max = max s.latency_max latency
        }
    end
  in
  let drop cycle =
    if measuring cycle then stats := { !stats with dropped = !stats.dropped + 1 }
  in
  let step cycle =
    (* Last stage first so that space freed downstream is visible
       upstream within the same cycle. *)
    for s = n - 1 downto 0 do
      for x = 0 to per - 1 do
        let q = queues.(s).(x) in
        let head p = if Queue.is_empty q.(p) then None else Some (Queue.peek q.(p)) in
        let wants p = Option.map (fun pkt -> out_port pkt s) (head p) in
        let first = arbiter.(s).(x) in
        let order = [ first; 1 - first ] in
        let granted = [| false; false |] in
        let port_taken = [| false; false |] in
        List.iter
          (fun p ->
            match wants p with
            | None -> ()
            | Some port ->
                if not port_taken.(port) then begin
                  granted.(p) <- true;
                  port_taken.(port) <- true
                end)
          order;
        (* Move granted heads. *)
        List.iter
          (fun p ->
            if granted.(p) then begin
              let pkt = Queue.peek q.(p) in
              let port = out_port pkt s in
              if s = n - 1 then begin
                ignore (Queue.pop q.(p));
                deliver cycle pkt
              end
              else begin
                let packed_hop = down.(s).((2 * x) + port) in
                let y = packed_hop lsr 1 and in_port = packed_hop land 1 in
                let target = queues.(s + 1).(y).(in_port) in
                if Queue.length target < config.buffer_capacity then begin
                  ignore (Queue.pop q.(p));
                  Queue.add pkt target
                end
                else if config.drop_on_full then begin
                  ignore (Queue.pop q.(p));
                  drop cycle
                end
                (* else: stall in place *)
              end
            end)
          order;
        (* Rotate priority when there was any contention. *)
        if granted.(first) || granted.(1 - first) then arbiter.(s).(x) <- 1 - first
      done
    done;
    (* Injection. *)
    for t = 0 to terminals - 1 do
      if Random.State.float rng 1.0 < config.injection_rate then begin
        if measuring cycle then stats := { !stats with offered = !stats.offered + 1 };
        let dst = Traffic.draw config.pattern rng ~terminals ~src:t in
        let cell = t / 2 and port = t land 1 in
        let q = queues.(0).(cell).(port) in
        if Queue.length q < config.buffer_capacity then begin
          Queue.add { dst; word = words.(cell).(dst); born = cycle } q;
          if measuring cycle then stats := { !stats with injected = !stats.injected + 1 }
        end
        else if measuring cycle then stats := { !stats with refused = !stats.refused + 1 }
      end
    done
  in
  for cycle = 0 to config.warmup + config.cycles - 1 do
    step cycle
  done;
  !stats

let saturation_sweep ?(config = default_config) rng g ~rates =
  List.map
    (fun rate ->
      let s = run ~config:{ config with injection_rate = rate } rng g in
      (rate, throughput s, mean_latency s))
    rates
