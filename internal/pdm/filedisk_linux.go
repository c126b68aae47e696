//go:build linux && (amd64 || arm64 || 386 || arm || riscv64 || loong64 || ppc64le || mipsle || mips64le)

// FileDisk is an ExtentDisk on little-endian Linux (wordview.Native), where
// preadv/pwritev move a run straight from or into the caller's words.

package pdm

import (
	"fmt"
	"io"
	"math/bits"
	"syscall"
	"unsafe"

	"repro/internal/wordview"
)

const (
	iovMax = 1024 // Linux's IOV_MAX: the most iovecs one preadv/pwritev takes
	// iovShort is the most iovecs a pass-sized run needs: a pass moves up to
	// four blocks per disk per call (two slot rows at depth 2/2).
	iovShort = 16
)

// ReadBlocks implements ExtentDisk.
func (d *FileDisk) ReadBlocks(off int, dst [][]int64) error { return d.blocksRun(off, dst, false) }

// WriteBlocks implements ExtentDisk.
func (d *FileDisk) WriteBlocks(off int, src [][]int64) error { return d.blocksRun(off, src, true) }

// blocksRun checks a run against the ReadBlock/WriteBlock contract, then
// moves it with run: one grow and one frontier advance for the whole run.
func (d *FileDisk) blocksRun(off int, bufs [][]int64, write bool) error {
	for _, buf := range bufs {
		if len(buf) != d.b {
			return ErrBadBlock
		}
	}
	op, trap, end := "read", uintptr(syscall.SYS_PREADV), off+len(bufs)
	if write {
		op, trap = "write", syscall.SYS_PWRITEV
	}
	switch {
	case len(bufs) == 0:
		return nil
	case off < 0 || !write && int64(end) > d.blocks.Load():
		return fmt.Errorf("%w: %s of blocks [%d, %d) (disk holds %d)", ErrOutOfRange, op, off, end, d.blocks.Load())
	case write:
		if err := d.grow(end); err != nil {
			return err
		}
	}
	if err := d.run(trap, off, bufs); err != nil {
		return fmt.Errorf("pdm: file disk %s: %w", op, err)
	}
	if write {
		advanceFrontier(&d.blocks, end-1)
	}
	return nil
}

// run moves bufs, consecutive blocks from block off, by syscall trap
// (preadv or pwritev): one call per iovMax blocks, iovecs on the stack,
// retried on EINTR and resumed after a short transfer.  The iovec array is
// sized to the run, so a pass-sized run does not clear the 16 KiB of iovecs
// only whole-stripe staging uses.
func (d *FileDisk) run(trap uintptr, off int, bufs [][]int64) error {
	if len(bufs) > iovShort {
		var iov [iovMax]syscall.Iovec
		return d.runIov(trap, off, bufs, iov[:])
	}
	var iov [iovShort]syscall.Iovec
	return d.runIov(trap, off, bufs, iov[:])
}

// runIov is run over the caller's iovec array.
func (d *FileDisk) runIov(trap uintptr, off int, bufs [][]int64, iov []syscall.Iovec) error {
	fd, pos := d.f.Fd(), int64(off)*int64(d.b)*8
	done := 0 // bytes of bufs[0] already moved
	for len(bufs) > 0 {
		n := min(len(bufs), len(iov))
		for i, buf := range bufs[:n] {
			b := wordview.Bytes(buf)
			if i == 0 {
				b = b[done:] // resume the block a short transfer split
			}
			iov[i].Base = &b[0]
			iov[i].SetLen(len(b))
		}
		// The offset travels as (low, high) words; on 64-bit hosts high is 0.
		moved, _, errno := syscall.Syscall6(trap, fd, uintptr(unsafe.Pointer(&iov[0])), uintptr(n),
			uintptr(pos), uintptr(uint64(pos)>>(bits.UintSize-1)>>1), 0)
		switch {
		case errno == syscall.EINTR:
			continue
		case errno != 0:
			return errno
		case moved == 0: // the file ends short of its frontier
			return io.ErrUnexpectedEOF
		}
		pos += int64(moved)
		for done += int(moved); done >= 8*d.b; done -= 8 * d.b {
			bufs = bufs[1:] // this block moved in full
		}
	}
	return nil
}
