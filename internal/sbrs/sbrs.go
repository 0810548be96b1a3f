// Package sbrs implements the Scalable Binary Relocation Service from
// Section VI-B of the paper. When tool daemons all parse the same binaries
// off a shared file system, the file server becomes the bottleneck. SBRS
// instead: (1) consults the mount table to find binaries residing on
// globally-shared file systems; (2) has one master daemon fetch each such
// binary once; (3) broadcasts the contents through the tool's own
// communication fabric (the TBON) to every daemon's node-local RAM disk;
// and (4) interposes the daemons' open() calls so subsequent symbol reads
// hit the local copies. The paper measured 0.088 s to relocate a 10 KB
// executable plus a 4 MB MPI library to 128 nodes, and a grace period
// after SIGSTOPping the application keeps relocation from competing with
// spinning MPI tasks.
package sbrs

import (
	"fmt"
	"path"
	"strings"

	"stat/internal/fsim"
	"stat/internal/sim"
	"stat/internal/tbon"
	"stat/internal/topology"
)

// Config tunes the service.
type Config struct {
	// RAMDiskPrefix is where relocated binaries are staged.
	RAMDiskPrefix string
	// GracePeriodSec is the settle time after SIGSTOPping the application
	// before relocation traffic starts.
	GracePeriodSec float64
	// Timing models the broadcast cost along the tree.
	Timing tbon.TimingModel
}

// DefaultConfig matches the paper's prototype behaviour.
func DefaultConfig(link sim.Link) Config {
	return Config{
		RAMDiskPrefix:  "/ramdisk/sbrs",
		GracePeriodSec: 0.02,
		Timing:         tbon.TimingModel{Link: link, CPU: sim.CPUCost{PerMessageSec: 30e-6, PerByteSec: 0.15e-9}},
	}
}

// Report describes one relocation run.
type Report struct {
	// Relocated lists the shared-filesystem paths that were staged.
	Relocated []string
	// Skipped lists paths already on local storage (mtab said not shared).
	Skipped []string
	// Bytes is the total payload broadcast.
	Bytes int64
	// FetchSec is the master daemon's time reading the originals.
	FetchSec float64
	// BroadcastSec is the tree distribution time.
	BroadcastSec float64
	// TotalSec includes the grace period.
	TotalSec float64
}

// Service relocates binaries and interposes opens for a set of daemons.
type Service struct {
	cfg  Config
	fs   *fsim.FS
	topo *topology.Tree
	net  *tbon.Network
}

// New creates a service over the daemons' file namespace and analysis
// tree. The tree is used as the broadcast fabric, exactly as STAT's
// integration used LaunchMON's back-end communication API.
func New(cfg Config, fs *fsim.FS, topo *topology.Tree) *Service {
	return &Service{cfg: cfg, fs: fs, topo: topo, net: tbon.New(topo)}
}

// shouldRelocate consults the mount table: only files on globally-shared
// file systems are staged.
func (s *Service) shouldRelocate(p string) (bool, error) {
	sys, err := s.fs.SystemFor(p)
	if err != nil {
		return false, err
	}
	return sys.Shared(), nil
}

// Relocate stages the given binaries, installs open interposition, and
// returns the timing report. The engine's clock advances by the modeled
// relocation time.
func (s *Service) Relocate(e *sim.Engine, paths []string) (*Report, error) {
	rep := &Report{}
	start := e.Now()

	// Grace period: the application is SIGSTOPped and given time to
	// settle so relocation does not contend with spinning tasks.
	e.RunUntil(e.Now() + s.cfg.GracePeriodSec)

	type staged struct {
		orig string
		data []byte
	}
	var toStage []staged
	for _, p := range paths {
		shared, err := s.shouldRelocate(p)
		if err != nil {
			return nil, err
		}
		if !shared {
			rep.Skipped = append(rep.Skipped, p)
			continue
		}
		// Master daemon (leaf 0 / node 0) fetches the original once.
		var fetchedAt float64
		var data []byte
		var ferr error
		doneFetch := false
		s.fs.ReadFile(0, p, func(at float64, d []byte, err error) {
			fetchedAt, data, ferr = at, d, err
			doneFetch = true
		})
		e.Run()
		if !doneFetch {
			return nil, fmt.Errorf("sbrs: fetch of %q never completed", p)
		}
		if ferr != nil {
			return nil, fmt.Errorf("sbrs: fetch %q: %w", p, ferr)
		}
		_ = fetchedAt // fetch completion advanced the engine clock
		toStage = append(toStage, staged{orig: p, data: data})
		rep.Relocated = append(rep.Relocated, p)
		rep.Bytes += int64(len(data))
	}
	fetchEnd := e.Now()
	rep.FetchSec = fetchEnd - start - s.cfg.GracePeriodSec

	// Broadcast each binary down the tree; daemons write their RAM disks.
	for _, st := range toStage {
		leafCopies, _, err := s.net.Broadcast(st.data)
		if err != nil {
			return nil, fmt.Errorf("sbrs: broadcast %q: %w", st.orig, err)
		}
		// Every leaf must have received an identical copy.
		for leaf, c := range leafCopies {
			if len(c) != len(st.data) {
				return nil, fmt.Errorf("sbrs: leaf %d got %d bytes of %q, want %d", leaf, len(c), st.orig, len(st.data))
			}
		}
		bt := s.cfg.Timing.BroadcastTime(s.topo, int64(len(st.data)))
		rep.BroadcastSec += bt
		e.RunUntil(e.Now() + bt)

		// Stage into the RAM-disk namespace and interpose opens.
		reloc := s.relocatedPath(st.orig)
		s.fs.WriteFile(reloc, st.data)
		s.fs.Interpose(st.orig, reloc)
	}

	rep.TotalSec = e.Now() - start
	return rep, nil
}

// relocatedPath maps an original path into the RAM-disk staging area.
func (s *Service) relocatedPath(orig string) string {
	clean := strings.TrimPrefix(orig, "/")
	return path.Join(s.cfg.RAMDiskPrefix, clean)
}
