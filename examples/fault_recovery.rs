//! Fault recovery and the clean wave — the scenario of Figure 4 and Definition 4.
//!
//! Starts from the Figure-1 block, recovers node (5,5,3), and prints the status of the
//! affected nodes round by round: the recovered node turns clean, the clean wave
//! re-activates its disabled neighbors, (3,5,3) stays disabled because it still has
//! faults in two dimensions, and the block finally shrinks to [3:4, 5:6, 3:4].
//! Afterwards the whole block recovers and the mesh returns to fully enabled.
//!
//! Run with: `cargo run --release --example fault_recovery`

use lgfi::prelude::*;

fn print_slice(labeling: &LabelingEngine, z: i32) {
    // Prints the x/y plane at height z around the block (x,y in 2..8).
    println!("    z = {z}  (E enabled, D disabled, C clean, F faulty)");
    for y in (3..9).rev() {
        let mut line = String::from("      ");
        for x in 2..9 {
            line.push(labeling.status_at(&coord![x, y, z]).code());
            line.push(' ');
        }
        println!("{line}  y={y}");
    }
}

fn main() {
    let mesh = Mesh::cubic(10, 3);
    let faults = [
        coord![3, 5, 4],
        coord![4, 5, 4],
        coord![5, 5, 3],
        coord![3, 6, 3],
    ];
    let mut labeling = LabelingEngine::new(mesh.clone());
    labeling.apply_faults(&faults);
    let before = StaticLayout::from_statuses(mesh.clone(), labeling.statuses());
    println!(
        "initial block (Figure 1): {}",
        before.blocks().blocks()[0].region
    );
    print_slice(&labeling, 3);

    // Figure 4: recover (5,5,3) and watch the clean wave.
    println!("\nrecovering (5,5,3) ...");
    labeling.recover_coord(&coord![5, 5, 3]);
    let watched = [
        coord![5, 5, 3],
        coord![4, 5, 3],
        coord![5, 6, 3],
        coord![5, 5, 4],
        coord![3, 5, 3],
    ];
    for round in 1..=10 {
        let changes = labeling.run_round();
        let line: Vec<String> = watched
            .iter()
            .map(|c| format!("{c}={}", labeling.status_at(c).code()))
            .collect();
        println!("  round {round}: {}  ({changes} changes)", line.join("  "));
        if changes == 0 {
            break;
        }
    }
    let after = StaticLayout::from_statuses(mesh.clone(), labeling.statuses());
    println!(
        "block after recovery: {} (paper: shrinks, Figure 4 (b))",
        after.blocks().blocks()[0].region
    );
    print_slice(&labeling, 3);

    // Theorem 1: routing across the block is never worse after the recovery.
    let (s, d) = (coord![4, 1, 3], coord![4, 8, 4]);
    let (source, dest) = (mesh.id_of(&s), mesh.id_of(&d));
    let route_before = before.route(&LgfiRouter::new(), source, dest, 10_000);
    let route_after = after.route(&LgfiRouter::new(), source, dest, 10_000);
    println!(
        "\nTheorem 1 check, routing {s} -> {d}: steps before recovery = {}, after = {} (never worse: {})",
        route_before.steps,
        route_after.steps,
        route_after.steps <= route_before.steps
    );

    // Full recovery: the mesh returns to all-enabled.
    for f in [coord![3, 5, 4], coord![4, 5, 4], coord![3, 6, 3]] {
        labeling.recover_coord(&f);
    }
    labeling.run_to_fixpoint(200).unwrap();
    let (f, d_count, c, e) = labeling.census();
    println!(
        "\nafter recovering every fault: {f} faulty, {d_count} disabled, {c} clean, {e} enabled"
    );
    assert_eq!(e, mesh.node_count());
}
