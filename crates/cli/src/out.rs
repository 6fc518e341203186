//! Command output that survives a closed stdout. `std`'s `println!`
//! panics once the reader is gone (`trajsim knn … | head -1`); the
//! `print!` and `println!` here, which `commands` imports in its place,
//! return the write error instead, so a command stops at its first lost
//! line (`watch`'s endless loop too) and `main` reports a closed pipe as
//! success. The gates (`replay`, `stats diff`, `slo check`) hold the
//! error until their verdict, so a failed check still exits 1. Std's
//! `eprintln!` panics on a closed stderr the same way; the one here drops
//! the line instead, so `main`'s error still exits 1.

use std::io::{self, Write};

/// The error of a write to a stdout whose reader is gone.
pub(crate) const CLOSED: &str = "stdout closed";

macro_rules! print {
    ($($arg:tt)*) => { $crate::out::write(format_args!($($arg)*)) };
}

macro_rules! println {
    ($($arg:tt)*) => { $crate::out::write(format_args!("{}\n", format_args!($($arg)*))) };
}

macro_rules! eprintln {
    ($($arg:tt)*) => { $crate::out::write_err(format_args!("{}\n", format_args!($($arg)*))) };
}

pub(crate) use {eprintln, print, println};

/// Unit tests print through the harness's captured `print!`.
pub(crate) fn write(args: std::fmt::Arguments<'_>) -> Result<(), String> {
    if cfg!(test) {
        std::print!("{args}");
        return Ok(());
    }
    io::stdout().lock().write_fmt(args).map_err(error)
}

/// A diagnostic line for stderr, lost if stderr is closed.
pub(crate) fn write_err(args: std::fmt::Arguments<'_>) {
    if cfg!(test) {
        std::eprint!("{args}");
        return;
    }
    let _ = io::stderr().lock().write_fmt(args);
}

pub(crate) fn flush() -> Result<(), String> {
    io::stdout().flush().map_err(error)
}

fn error(e: io::Error) -> String {
    match e.kind() {
        io::ErrorKind::BrokenPipe => CLOSED.into(),
        _ => format!("stdout: {e}"),
    }
}
