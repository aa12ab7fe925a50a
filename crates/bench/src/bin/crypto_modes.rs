//! **§5 / Fig. 7**: which AES modes of operation are compatible with
//! approximate video storage. Empirically verifies the three requirements
//! of §5.1 per mode and reports single-bit-flip damage.

use vapp_bench::table;
use vapp_crypto::{evaluate_mode, flip_damage, CipherMode};

fn main() {
    println!("== AES modes over approximate storage (paper §5) ==\n");
    let key = [0x2Bu8; 16];
    let iv = [0x7Eu8; 16];
    let plaintext: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();

    let mut rows = Vec::new();
    for mode in CipherMode::ALL {
        let d = flip_damage(mode, &key, &iv, &plaintext, 1234);
        let r = evaluate_mode(mode, &key, &iv, 509);
        let damage = if d.exact {
            "1 bit".to_string()
        } else {
            format!("{}b/{}blk", d.damaged_bits, d.damaged_blocks)
        };
        let flags = [r.unreadable, r.contained, r.transparent, r.compatible()];
        let flags = flags.map(|f| if f { "yes" } else { "no" }).join("|");
        rows.push(format!("{mode:?}|{damage}|{flags}"));
        assert_eq!(r.compatible(), mode.approximation_compatible());
    }
    let header = "mode|flip damage|unreadable|contained|transparent|compatible";
    print!("{}", table(&[6, 14, 12, 13, 13, 12], &[header], &rows));
    println!(
        "\n(paper §5.2: ECB fails requirement #1 — dictionary attacks; CBC fails #2/#3 — \
         flips scramble a block and touch the next; OFB and CTR contain a flip to \
         exactly that bit and are fully compatible)"
    );
}
