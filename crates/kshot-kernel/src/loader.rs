//! Booting a kernel image onto the simulated machine.

use std::fmt;
use std::sync::Arc;

use kshot_kcc::codegen::CodegenOptions;
use kshot_kcc::image::KernelImage;
use kshot_machine::{AccessCtx, Machine, MachineError, MemLayout, PageAttrs};

use crate::ftrace::TraceState;
use crate::task::Task;

/// Basic OS information gathered at boot and shipped to the remote patch
/// server so it can rebuild byte-compatible binaries (paper §V-A: "basic
/// information about the OS, including the kernel version, configuration,
/// and compilation flags sufficient to rebuild the binary image").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelInfo {
    /// Kernel version string (e.g. `"kv-3.14"`).
    pub version: String,
    /// Physical base of the text segment.
    pub text_base: u64,
    /// Physical base of the data segment.
    pub data_base: u64,
    /// Compiler flags the image was built with.
    pub options: CodegenOptions,
}

/// Errors raised while booting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootError {
    /// A segment does not fit its region in the memory layout.
    SegmentTooLarge {
        /// Which segment.
        segment: &'static str,
        /// Segment size.
        size: u64,
        /// Region capacity.
        capacity: u64,
    },
    /// The image's base addresses disagree with the layout.
    BaseMismatch {
        /// Which segment.
        segment: &'static str,
        /// Address in the image.
        image: u64,
        /// Address in the layout.
        layout: u64,
    },
    /// Machine-level failure while loading.
    Machine(MachineError),
}

impl fmt::Display for BootError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BootError::SegmentTooLarge {
                segment,
                size,
                capacity,
            } => write!(
                f,
                "{segment} segment of {size} bytes exceeds region capacity {capacity}"
            ),
            BootError::BaseMismatch {
                segment,
                image,
                layout,
            } => write!(
                f,
                "{segment} base mismatch: image says {image:#x}, layout says {layout:#x}"
            ),
            BootError::Machine(e) => write!(f, "machine fault during boot: {e}"),
        }
    }
}

impl std::error::Error for BootError {}

impl From<MachineError> for BootError {
    fn from(e: MachineError) -> Self {
        BootError::Machine(e)
    }
}

/// The running kernel: a machine, the boot-time image it was loaded from
/// (shared: a fleet boots every machine from one `Arc`), the runtime
/// tracer, and the task table.
///
/// # Examples
///
/// ```
/// use kshot_kcc::ir::{Expr, Function, Program};
/// use kshot_kcc::{link, CodegenOptions};
/// use kshot_kernel::Kernel;
/// use kshot_machine::MemLayout;
///
/// let mut p = Program::new();
/// p.add_function(Function::new("double_it", 1, 0).returning(
///     Expr::param(0).mul(Expr::c(2))));
/// let layout = MemLayout::standard();
/// let image = link(&p, &CodegenOptions::default(),
///                  layout.kernel_text_base, layout.kernel_data_base).unwrap();
/// let mut k = Kernel::boot(image, "kv-test", layout).unwrap();
/// assert_eq!(k.call_function("double_it", &[21]).unwrap(), 42);
/// ```
#[derive(Debug)]
pub struct Kernel {
    pub(crate) machine: Machine,
    pub(crate) image: Arc<KernelImage>,
    pub(crate) tracer: TraceState,
    pub(crate) tasks: Vec<Task>,
    pub(crate) current_task: Option<u64>,
    pub(crate) exec_trace: crate::interp::ExecTrace,
    version: String,
}

/// Stack bytes reserved per task.
pub(crate) const TASK_STACK_SIZE: u64 = 64 * 1024;

impl Kernel {
    /// Boot `image` on a fresh machine with the given layout.
    ///
    /// Performs what the boot loader and early kernel do in the paper's
    /// prototype: copy segments into place, apply page attributes (text
    /// `r-x`, data/stack `rw-`), and leave the boot-reserved KShot region
    /// untouched for `kshot-core` to claim. The image is only read: pass
    /// an `Arc` clone to boot many machines from one image without
    /// copying it, or a [`KernelImage`] to give it to this kernel.
    ///
    /// # Errors
    ///
    /// Returns a [`BootError`] if the image does not fit the layout.
    pub fn boot(
        image: impl Into<Arc<KernelImage>>,
        version: impl Into<String>,
        layout: MemLayout,
    ) -> Result<Kernel, BootError> {
        let image = image.into();
        let mut machine = Machine::new(layout)?;
        if image.text_base != layout.kernel_text_base {
            return Err(BootError::BaseMismatch {
                segment: "text",
                image: image.text_base,
                layout: layout.kernel_text_base,
            });
        }
        if image.data_base != layout.kernel_data_base {
            return Err(BootError::BaseMismatch {
                segment: "data",
                image: image.data_base,
                layout: layout.kernel_data_base,
            });
        }
        if image.text.len() as u64 > layout.kernel_text_size {
            return Err(BootError::SegmentTooLarge {
                segment: "text",
                size: image.text.len() as u64,
                capacity: layout.kernel_text_size,
            });
        }
        if image.data.len() as u64 > layout.kernel_data_size {
            return Err(BootError::SegmentTooLarge {
                segment: "data",
                size: image.data.len() as u64,
                capacity: layout.kernel_data_size,
            });
        }
        machine.write_bytes(AccessCtx::Firmware, image.text_base, &image.text)?;
        machine.write_bytes(AccessCtx::Firmware, image.data_base, &image.data)?;
        // Text pages are r-x (set by Machine::new); data and stack rw-.
        machine.set_page_attrs(
            layout.kernel_data_base,
            layout.kernel_data_size,
            PageAttrs::RW,
        )?;
        machine.set_page_attrs(
            layout.kernel_stack_base,
            layout.kernel_stack_size,
            PageAttrs::RW,
        )?;
        Ok(Kernel {
            machine,
            image,
            tracer: TraceState::new(),
            tasks: Vec::new(),
            current_task: None,
            exec_trace: crate::interp::ExecTrace::default(),
            version: version.into(),
        })
    }

    /// Kernel version string.
    pub fn version(&self) -> &str {
        &self.version
    }

    /// The OS info packet sent to the remote patch server.
    pub fn info(&self) -> KernelInfo {
        KernelInfo {
            version: self.version.clone(),
            text_base: self.image.text_base,
            data_base: self.image.data_base,
            options: self.image.options.clone(),
        }
    }

    /// Borrow the machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutably borrow the machine (the SMM handler and attackers use
    /// this; their accesses still go through privilege checks).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The boot-time image (symbol table, segment bases). Note that after
    /// live patching, *machine memory* is authoritative; the image is the
    /// pristine boot copy.
    pub fn image(&self) -> &KernelImage {
        &self.image
    }

    /// Tear the kernel down and reclaim its pristine boot image. The
    /// image is never mutated after [`boot`](Self::boot) (live patching
    /// writes machine memory only), so the returned value is
    /// bit-identical to what was booted. It is moved out when this
    /// kernel held the only reference, and cloned otherwise.
    pub fn into_image(self) -> KernelImage {
        Arc::unwrap_or_clone(self.image)
    }

    /// The execution-trace ring (post-mortem debugging aid).
    pub fn exec_trace(&self) -> &crate::interp::ExecTrace {
        &self.exec_trace
    }

    /// Mutable execution-trace access (enable/clear).
    pub fn exec_trace_mut(&mut self) -> &mut crate::interp::ExecTrace {
        &mut self.exec_trace
    }

    /// The runtime tracer.
    pub fn tracer(&self) -> &TraceState {
        &self.tracer
    }

    /// Mutable tracer access (enable/disable, rewrite pads).
    pub fn tracer_mut(&mut self) -> &mut TraceState {
        &mut self.tracer
    }

    /// Entry address of a named kernel function.
    pub fn function_addr(&self, name: &str) -> Option<u64> {
        self.image.symbols.lookup(name).map(|s| s.addr)
    }

    /// Read the first word of a named global from *live* kernel memory.
    ///
    /// # Errors
    ///
    /// Returns a fault if the global does not exist or memory is
    /// unreadable.
    pub fn read_global(&mut self, name: &str) -> Result<u64, crate::interp::ExecFault> {
        let sym = self
            .image
            .symbols
            .lookup_global(name)
            .ok_or(crate::interp::ExecFault::UnknownSymbol)?;
        let addr = sym.addr;
        self.machine
            .read_u64(AccessCtx::Kernel, addr)
            .map_err(crate::interp::ExecFault::Memory)
    }

    /// Read word `index` of a named global buffer from live memory.
    ///
    /// # Errors
    ///
    /// Faults if the symbol is missing or the index is out of the
    /// global's bounds.
    pub fn read_global_word(
        &mut self,
        name: &str,
        index: u64,
    ) -> Result<u64, crate::interp::ExecFault> {
        let sym = self
            .image
            .symbols
            .lookup_global(name)
            .ok_or(crate::interp::ExecFault::UnknownSymbol)?;
        if (index + 1) * 8 > sym.size {
            return Err(crate::interp::ExecFault::UnknownSymbol);
        }
        let addr = sym.addr + index * 8;
        self.machine
            .read_u64(AccessCtx::Kernel, addr)
            .map_err(crate::interp::ExecFault::Memory)
    }

    /// Write the first word of a named global (test setup convenience;
    /// uses kernel privilege).
    ///
    /// # Errors
    ///
    /// Faults if the symbol is missing or memory is unwritable.
    pub fn write_global(&mut self, name: &str, value: u64) -> Result<(), crate::interp::ExecFault> {
        let sym = self
            .image
            .symbols
            .lookup_global(name)
            .ok_or(crate::interp::ExecFault::UnknownSymbol)?;
        let addr = sym.addr;
        self.machine
            .write_u64(AccessCtx::Kernel, addr, value)
            .map_err(crate::interp::ExecFault::Memory)
    }

    /// Top of the dedicated stack used by [`Kernel::call_function`]
    /// (task stacks are allocated above it).
    pub(crate) fn syscall_stack_top(&self) -> u64 {
        self.machine.layout().kernel_stack_base + TASK_STACK_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kshot_kcc::ir::{Expr, Function, Program};
    use kshot_kcc::link;

    fn boot_simple() -> Kernel {
        let mut p = Program::new();
        p.add_function(Function::new("f", 0, 0).returning(Expr::c(9)));
        let layout = MemLayout::standard();
        let image = link(
            &p,
            &CodegenOptions::default(),
            layout.kernel_text_base,
            layout.kernel_data_base,
        )
        .unwrap();
        Kernel::boot(image, "kv-test", layout).unwrap()
    }

    #[test]
    fn boot_loads_text_into_memory() {
        let mut k = boot_simple();
        let addr = k.function_addr("f").unwrap();
        let mut b = [0u8; 1];
        // Text is readable (r-x) by the kernel.
        k.machine_mut()
            .read_bytes(AccessCtx::Kernel, addr, &mut b)
            .unwrap();
        // And not writable.
        assert!(k
            .machine_mut()
            .write_bytes(AccessCtx::Kernel, addr, &[0])
            .is_err());
    }

    #[test]
    fn boot_rejects_base_mismatch() {
        let mut p = Program::new();
        p.add_function(Function::new("f", 0, 0).returning(Expr::c(9)));
        let layout = MemLayout::standard();
        let image = link(
            &p,
            &CodegenOptions::default(),
            0x4000,
            layout.kernel_data_base,
        )
        .unwrap();
        assert!(matches!(
            Kernel::boot(image, "kv", layout),
            Err(BootError::BaseMismatch { .. })
        ));
    }

    #[test]
    fn info_reflects_image() {
        let k = boot_simple();
        let info = k.info();
        assert_eq!(info.version, "kv-test");
        assert_eq!(info.text_base, MemLayout::standard().kernel_text_base);
    }

    #[test]
    fn read_write_globals() {
        let mut p = Program::new();
        p.add_global(kshot_kcc::ir::Global::word("g", 5));
        p.add_global(kshot_kcc::ir::Global::buffer("b", 3));
        p.add_function(Function::new("f", 0, 0).returning(Expr::c(0)));
        let layout = MemLayout::standard();
        let image = link(
            &p,
            &CodegenOptions::default(),
            layout.kernel_text_base,
            layout.kernel_data_base,
        )
        .unwrap();
        let mut k = Kernel::boot(image, "kv", layout).unwrap();
        assert_eq!(k.read_global("g").unwrap(), 5);
        k.write_global("g", 11).unwrap();
        assert_eq!(k.read_global("g").unwrap(), 11);
        assert_eq!(k.read_global_word("b", 2).unwrap(), 0);
        assert!(k.read_global_word("b", 3).is_err());
        assert!(k.read_global("missing").is_err());
    }
}
