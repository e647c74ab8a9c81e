//! `impute_mae` per seed, pinned. The model, its step budget, the data and
//! the missing pattern are all fixed by the seed, so the error is too; a
//! change that moves it changes what the system computes, not how fast.
//! A change that alters numerics on purpose re-pins these values in a
//! benchmark-only change.

const PINNED: [(u64, f64); 20] = [
    (1, 0.7357006442238532),
    (2, 0.695977109805296),
    (3, 0.7278998316639154),
    (4, 0.7469925607587242),
    (5, 0.6885040269860765),
    (6, 0.7243803913823741),
    (7, 0.7440157423903133),
    (8, 0.6852697960481337),
    (9, 0.7008389549978286),
    (10, 0.6707650423389498),
    (11, 0.6951227753588166),
    (12, 0.7047311744035086),
    (13, 0.660244166115111),
    (14, 0.7163012936586937),
    (15, 0.7092515617421122),
    (16, 0.7240113718921671),
    (17, 0.7379849577945775),
    (18, 0.7214984262565036),
    (19, 0.7271550612131459),
    (20, 0.6744373346224739),
];

pub fn mae(seed: u64) -> Option<f64> {
    PINNED.iter().find(|(s, _)| *s == seed).map(|(_, v)| *v)
}
