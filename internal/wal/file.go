package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"catocs/internal/wire"
)

// FileLog persists a Device to a real file so a member's identity log
// survives an OS-process restart — the path cmd/node takes on
// SIGTERM→restart. The in-memory Device remains the source of truth
// (and the unit the recovery discipline is defined on); the file is a
// mirror of its structured appends, replayed back into a Device on
// open. A frame is a varint body length and a body written through the
// wire codec — the stored CRC, the object name, the version, a value
// tag and the value — and it carries the *stored* CRC, so a
// torn in-memory record round-trips as a torn record and the
// MemberLog/Recover CRC checks behave identically whether the device
// lived through the crash or was reloaded from disk. A partial frame
// at the end of the file (a crash mid-write at the file layer) is
// truncated on open, the file-level analogue of the device's torn
// tail.
//
// Writes go through the OS page cache without fsync: the model's
// durability unit is the process, not the machine — exactly what the
// SIGTERM→restart recovery path needs.

// Frame value-type tags. The decoded value's dynamic type must equal
// the appended one, because the stored CRC covers a %T rendering.
const (
	fileValNil    = 0
	fileValBytes  = 1
	fileValString = 2
	fileValInt    = 3
	fileValInt64  = 4
	fileValUint64 = 5
)

const fileMaxFrame = 1 << 26

// FileLog mirrors a Device into a file.
type FileLog struct {
	dev  *Device
	f    *os.File
	path string
	offs []int64 // byte offset of the end of each mirrored frame
	err  error   // first write error; latched, surfaced by Close
}

// OpenFileLog opens (or creates) a file-backed device. Existing frames
// are replayed into a fresh Device; a partial trailing frame is
// truncated.
func OpenFileLog(path string) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	fl := &FileLog{dev: NewDevice(), f: f, path: path}
	good, err := fl.load()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	fl.dev.mirror = fl
	return fl, nil
}

// Device returns the mirrored device, ready for OpenMemberLog.
func (fl *FileLog) Device() *Device { return fl.dev }

// Path returns the backing file path.
func (fl *FileLog) Path() string { return fl.path }

// Close flushes nothing (writes are synchronous into the page cache)
// and closes the file, surfacing any latched write error.
func (fl *FileLog) Close() error {
	err := fl.f.Close()
	if fl.err != nil {
		return fl.err
	}
	return err
}

// load replays the file into the device, returning the byte offset of
// the last complete frame.
func (fl *FileLog) load() (int64, error) {
	buf, err := io.ReadAll(fl.f)
	if err != nil {
		return 0, err
	}
	var off int64
	for off < int64(len(buf)) {
		r := wire.NewReader(buf[off:])
		n := r.Uvarint()
		if r.Err() {
			if _, k := binary.Uvarint(buf[off:]); k == 0 {
				break // the file ends inside the length prefix: torn
			}
			return 0, fmt.Errorf("wal: %s: malformed frame length at offset %d", fl.path, off)
		}
		if n > fileMaxFrame {
			return 0, fmt.Errorf("wal: %s: frame of %d bytes at offset %d exceeds limit", fl.path, n, off)
		}
		if n > uint64(len(r.Rest())) {
			break // partial trailing frame: torn at the file layer
		}
		rec, crc, err := decodeFrame(r.Take(int(n)))
		if err != nil {
			return 0, fmt.Errorf("wal: %s: frame at offset %d: %w", fl.path, off, err)
		}
		// Re-append preserving the stored CRC (which may deliberately
		// mismatch for a device-level torn record).
		fl.dev.records = append(fl.dev.records, rec)
		fl.dev.crcs = append(fl.dev.crcs, crc)
		fl.dev.bytes += uint64(rec.encodedSize())
		fl.dev.appends++
		off = int64(len(buf) - len(r.Rest()))
		fl.offs = append(fl.offs, off)
	}
	return off, nil
}

// append implements deviceMirror.
func (fl *FileLog) append(r Record, crc uint32) {
	frame, err := encodeFrame(r, crc)
	if err == nil {
		_, err = fl.f.Write(frame)
	}
	if err != nil && fl.err == nil {
		fl.err = err
	}
	var prev int64
	if len(fl.offs) > 0 {
		prev = fl.offs[len(fl.offs)-1]
	}
	fl.offs = append(fl.offs, prev+int64(len(frame)))
}

// truncate implements deviceMirror: drop mirrored frames beyond n.
func (fl *FileLog) truncate(n int) {
	if n >= len(fl.offs) {
		return
	}
	var off int64
	if n > 0 {
		off = fl.offs[n-1]
	}
	fl.offs = fl.offs[:n]
	if err := fl.f.Truncate(off); err != nil && fl.err == nil {
		fl.err = err
		return
	}
	if _, err := fl.f.Seek(off, io.SeekStart); err != nil && fl.err == nil {
		fl.err = err
	}
}

func encodeFrame(r Record, crc uint32) ([]byte, error) {
	w := wire.NewAppendWriter(nil)
	w.Uvarint(uint64(crc))
	w.BytesVar([]byte(r.Object))
	w.Uvarint(r.Seq)
	switch v := r.Value.(type) {
	case nil:
		w.U8(fileValNil)
	case []byte:
		w.U8(fileValBytes)
		w.BytesVar(v)
	case string:
		w.U8(fileValString)
		w.BytesVar([]byte(v))
	case int:
		w.U8(fileValInt)
		w.Uvarint(uint64(int64(v)))
	case int64:
		w.U8(fileValInt64)
		w.Uvarint(uint64(v))
	case uint64:
		w.U8(fileValUint64)
		w.Uvarint(v)
	default:
		return nil, fmt.Errorf("cannot persist value of type %T", r.Value)
	}
	frame := wire.NewAppendWriter(nil)
	frame.BytesVar(w.Bytes())
	return frame.Bytes(), nil
}

func decodeFrame(body []byte) (Record, uint32, error) {
	r := wire.NewReader(body)
	crc := r.Uvarint()
	if crc > math.MaxUint32 {
		r.Fail()
	}
	rec := Record{Object: string(r.BytesVar(fileMaxFrame)), Seq: r.Uvarint()}
	switch tag := r.U8(); tag {
	case fileValNil:
	case fileValBytes:
		rec.Value = r.BytesVar(fileMaxFrame)
	case fileValString:
		rec.Value = string(r.BytesVar(fileMaxFrame))
	case fileValInt:
		rec.Value = int(int64(r.Uvarint()))
	case fileValInt64:
		rec.Value = int64(r.Uvarint())
	case fileValUint64:
		rec.Value = r.Uvarint()
	default:
		return rec, 0, fmt.Errorf("unknown value tag %d", tag)
	}
	if err := r.Finish("wal frame"); err != nil {
		return rec, 0, err
	}
	return rec, uint32(crc), nil
}
