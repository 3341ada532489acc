//! Atomic-unit conversions for light-matter quantities.
//!
//! The LFD electron dynamics works in Hartree atomic units (ħ = m_e = e =
//! a₀ = 1); the MD side counts time in femtoseconds and lengths in
//! Ångström. [`fs_to_au`] and [`BOHR_ANGSTROM`] are the conversions the
//! MESH driver makes; the other constants record the unit system.

/// Hartree energy in electron-volts.
pub const HARTREE_EV: f64 = 27.211_386_245_988;
/// Bohr radius in Ångström.
pub const BOHR_ANGSTROM: f64 = 0.529_177_210_903;
/// Atomic unit of time in femtoseconds.
pub const AUT_FS: f64 = 0.024_188_843_265_857;
/// Speed of light in atomic units (1/α).
pub const C_AU: f64 = 137.035_999_084;
/// Atomic unit of electric field in V/Å.
pub const EFIELD_AU_V_PER_ANGSTROM: f64 = 51.422_067_476;

/// Femtoseconds → atomic units of time.
pub fn fs_to_au(fs: f64) -> f64 {
    fs / AUT_FS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn femtosecond_scale() {
        // 1 fs ≈ 41.34 a.u. — the paper's Δt_MD ~ 100 as ≈ 4.13 a.u.
        assert!((fs_to_au(1.0) - 41.341).abs() < 0.01);
        assert!((fs_to_au(0.1) - 4.134).abs() < 0.001);
    }
}
