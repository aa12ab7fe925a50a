//! **§5 / Figure 7**: which AES modes of operation are compatible with
//! approximate video storage. Checks the three requirements of §5.1 per
//! mode and measures what one ciphertext bit flip does to the plaintext.

use crate::{table, ExpConfig};
use vapp_crypto::{evaluate_mode, flip_damage, CipherMode, FlipDamage, ModeReport};

/// Per mode of [`CipherMode::ALL`], the plaintext damage of one flip in a
/// 4 KiB ciphertext and the §5.1 requirement checks.
pub type Fig7Result = Vec<(FlipDamage, ModeReport)>;

/// Runs the experiment; it uses fixed inputs, so the scale does not
/// matter. Panics if a mode's measured compatibility disagrees with
/// [`CipherMode::approximation_compatible`], the flag the pipeline trusts.
pub fn run(_cfg: &ExpConfig) -> Fig7Result {
    let (key, iv) = ([0x2Bu8; 16], [0x7Eu8; 16]);
    let plaintext: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
    let modes = CipherMode::ALL.map(|mode| {
        let r = evaluate_mode(mode, &key, &iv, 509);
        assert_eq!(r.compatible(), mode.approximation_compatible(), "{mode:?}");
        (flip_damage(mode, &key, &iv, &plaintext, 1234), r)
    });
    modes.into()
}

/// Renders the mode table.
pub fn render(r: &Fig7Result) -> String {
    let rows: Vec<String> = (r.iter())
        .map(|(d, m)| {
            let damage = match d.exact {
                true => "1 bit".to_string(),
                false => format!("{}b/{}blk", d.damaged_bits, d.damaged_blocks),
            };
            let flags = [m.unreadable, m.contained, m.transparent, m.compatible()];
            let flags = flags.map(|f| if f { "yes" } else { "no" }).join("|");
            format!("{:?}|{damage}|{flags}", m.mode)
        })
        .collect();
    format!(
        "== AES modes over approximate storage (paper §5) ==\n\n{}\n\
         (paper §5.2: ECB fails requirement #1 — dictionary attacks; CBC fails #2/#3 — \
         flips scramble a block and touch the next; OFB and CTR contain a flip to \
         exactly that bit and are fully compatible)\n",
        table(
            &[6, 14, 12, 13, 13, 12],
            &["mode|flip damage|unreadable|contained|transparent|compatible"],
            &rows
        ),
    )
}
